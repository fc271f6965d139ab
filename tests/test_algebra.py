import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

from superhs.algebra import (
    EVEN,
    ODD,
    FieldSymbol,
    JetFactor,
    ParityError,
    SymExpr,
    _sort_factors,
    lam_power,
    require_parity,
    theta_factor,
)
from superhs.calculus import dx, substitute, superD
from superhs.sexpr import SExprError, from_sexpr, to_sexpr

from helpers import random_expr, random_homogeneous

u = FieldSymbol("u", EVEN)
v = FieldSymbol("v", EVEN)
xi = FieldSymbol("xi", ODD)
phi = FieldSymbol("phi", ODD)


def test_anticommutation_cancels():
    assert (xi(dx=1) * xi(dx=3) + xi(dx=3) * xi(dx=1)).is_zero()


def test_odd_square_vanishes():
    assert (xi(dx=1) * xi(dx=1)).is_zero()


def test_reorder_one_flip_and_merge():
    lhs = Fraction(1, 2) * (xi(dx=1) * xi(dx=3)) - Fraction(1, 2) * (xi(dx=3) * xi(dx=1))
    assert lhs == xi(dx=1) * xi(dx=3)


def test_scalar_and_lam_arithmetic():
    e = 2 * u() - u() - u()
    assert e.is_zero()
    assert lam_power(2) * lam_power(-3) == lam_power(-1)
    assert (theta_factor() * theta_factor()).is_zero()


def test_theta_moves_with_sign():
    # phi * theta = -theta * phi
    assert phi() * theta_factor() == -(theta_factor() * phi())
    assert u() * theta_factor() == theta_factor() * u()
    assert (theta_factor() * u()).jet_factors() == {u.jet()}
    assert str(theta_factor() * u()) == "th*u"


def test_parity_detection():
    assert (u() * u(dx=1)).parity() == EVEN
    assert (xi() * u()).parity() == ODD
    assert (theta_factor() * xi()).parity() == EVEN
    assert (u() + xi()).parity() is None
    assert SymExpr.zero().parity() == EVEN


def test_graded_commutativity_randomized():
    rng = random.Random(3)
    for _ in range(80):
        p1, p2 = rng.randint(0, 1), rng.randint(0, 1)
        e1 = random_homogeneous(rng, p1)
        e2 = random_homogeneous(rng, p2)
        sign = -1 if (p1 and p2) else 1
        assert (e1 * e2 - sign * (e2 * e1)).is_zero()


def test_product_associativity_randomized():
    rng = random.Random(5)
    for _ in range(50):
        a, b, c = (random_expr(rng) for _ in range(3))
        assert ((a * b) * c - a * (b * c)).is_zero()


def test_canonical_form_stable_under_rebuild():
    rng = random.Random(9)
    for _ in range(50):
        e = random_expr(rng)
        rebuilt = SymExpr.zero()
        for (lam, factors), coeff in e.terms():
            rebuilt = rebuilt + SymExpr.monomial(coeff, factors, lam=lam)
        assert rebuilt == e


def _assert_canonical(e):
    # integer numerators over one positive denominator, in lowest terms; zero is ({}, 1)
    assert type(e._den) is int and e._den > 0
    assert gcd(e._den, *e._terms.values()) == 1
    for (lam, factors), num in e._terms.items():
        assert type(num) is int and num != 0
        assert _sort_factors(factors) == (1, factors)
    # rationals leave the kernel as Fraction
    for (lam, factors), coeff in e.terms():
        assert type(coeff) is Fraction and coeff == Fraction(e._terms[lam, factors], e._den)
        assert type(e.coefficient(factors, lam)) is Fraction and e.coefficient(factors, lam) == coeff


def test_stored_terms_are_canonical_and_nonzero_randomized():
    rng = random.Random(21)
    for _ in range(200):
        a, b = random_expr(rng), random_expr(rng)
        cancelled = [(a + b) - b, a * b - a * b, a - a, b + a - a - b]
        assert cancelled[0] == a
        assert all(e.is_zero() for e in cancelled[1:])
        rule = {u.jet(dx=1): v() * v(dx=1) - u(), xi.jet(dx=1): phi() * v()}
        for e in cancelled + [a * b, (a + b) * (a - b), dx(a * b), superD(a), substitute(a, rule)]:
            _assert_canonical(e)
    # raw constructors: unsorted factors, integer coefficients, terms that cancel
    raw = [(2, 0, (xi.jet(), phi.jet())), (2, 0, (phi.jet(), xi.jet())),
           (3, 1, (v.jet(), u.jet())), (0, 0, (u.jet(),))]
    built = SymExpr.from_terms(raw)
    _assert_canonical(built)
    assert built == 3 * lam_power(1) * u() * v()
    mapped = SymExpr({(0, (xi.jet(), u.jet())): 1, (0, (u.jet(), xi.jet())): -1})
    assert mapped.is_zero()


def test_jet_validation():
    const = FieldSymbol("c", EVEN, constant=True)
    g = FieldSymbol("G", EVEN, superspace=True)
    # valid jets of each symbol exist first: an interned jet must not let a bad one through
    const.jet(), u.jet(), u.jet(dx=1), g.jet(dtheta=1)
    with pytest.raises(ValueError, match="c is constant; no jets exist"):
        JetFactor(const, dx=1)
    with pytest.raises(ValueError, match="u does not depend on theta"):
        JetFactor(u, dtheta=1)  # not a superspace field
    with pytest.raises(ValueError, match="derivative orders must be nonnegative"):
        JetFactor(u, dx=-1)
    with pytest.raises(ValueError, match="dtheta must be 0 or 1"):
        JetFactor(g, dtheta=2)


def test_jets_are_interned():
    jet = u.jet(dx=1)
    assert jet is JetFactor(u, 1)
    assert FieldSymbol("u", EVEN).jet(dx=1) is jet
    assert FieldSymbol("u", EVEN)(dx=1) == u(dx=1)
    assert hash(jet) == hash((u, 1, 0, 0))
    with pytest.raises(AttributeError):
        jet.dx = 2
    assert copy.deepcopy(jet) is jet
    assert pickle.loads(pickle.dumps(jet)) is jet


def test_kernel_outputs_hold_interned_jets():
    def assert_interned(e):
        for _lam, factors in e._terms:
            for f in factors:
                assert JetFactor(f.symbol, f.dx, f.dt, f.dtheta) is f

    g = FieldSymbol("G", EVEN, superspace=True)
    rng = random.Random(13)
    rule = {u.jet(dx=1): v() * v(dx=1) - u(), xi.jet(dx=1): phi() * v()}
    for _ in range(20):
        e = random_expr(rng) + g(dtheta=1) * xi()
        for out in (from_sexpr(to_sexpr(e)), dx(e), superD(e), substitute(e, rule)):
            assert_interned(out)


def test_same_name_symbols_of_different_kind_are_distinct_factors():
    kinds = [FieldSymbol("u", EVEN), FieldSymbol("u", ODD),
             FieldSymbol("u", EVEN, superspace=True), FieldSymbol("u", ODD, constant=True)]
    for a in kinds:
        for b in kinds:
            sign = -1 if (a.parity and b.parity) else 1
            assert (a() * b() - sign * (b() * a())).is_zero(), (a, b)


def test_coefficient_lookup():
    e = 3 * (u() * xi(dx=1)) + lam_power(1) * v()
    assert e.coefficient([u.jet(), xi.jet(dx=1)]) == 3
    assert e.coefficient([xi.jet(dx=1), u.jet()]) == 3
    assert e.coefficient([v.jet()], lam=1) == 1
    assert e.coefficient([v.jet()]) == 0


def test_without_fields():
    e = u() * u(dx=1) + u() * xi(dx=1) * xi(dx=2)
    assert e.without_fields([xi]) == u() * u(dx=1)


def test_sexpr_roundtrip_handcrafted():
    g = FieldSymbol("G", EVEN, superspace=True)
    c = FieldSymbol("tau", ODD, constant=True)
    e = (
        Fraction(-3, 2) * (lam_power(-2) * (theta_factor() * u(dx=2, dt=1)))
        + g(dx=1, dtheta=1) * c()
        + SymExpr.scalar(7)
    )
    assert from_sexpr(to_sexpr(e)) == e
    assert from_sexpr("(sum (term 1 (jet xi odd field 0 0 0) (theta)))") == theta_factor() * xi()


def test_sexpr_roundtrip_randomized():
    rng = random.Random(21)
    for _ in range(50):
        e = random_expr(rng)
        assert from_sexpr(to_sexpr(e)) == e
    assert from_sexpr(to_sexpr(SymExpr.zero())).is_zero()


def test_sexpr_rejects_garbage():
    with pytest.raises(SExprError):
        from_sexpr("(sum (term")
    with pytest.raises(SExprError):
        from_sexpr("(product)")
    with pytest.raises(SExprError):
        from_sexpr("(sum (term 1 (unknown 3)))")
    for text in (
        "(sum (term 1 (lam)))",
        "(sum (term 1 (lam x)))",
        "(sum (term 1 (jet u maybe field 0 0 0)))",
        "(sum (term 1 (jet u even weird 0 0 0)))",
        "(sum (term 1 (jet u even field one 0 0)))",
        "(sum (term (x)))",
        "(sum (term abc))",
        "(sum (term 1 (jet u even field -1 0 0)))",
        "(sum (term 1 (jet u even const 1 0 0)))",
        "(sum (term 1 (jet u even field 0 0 1)))",
        "(sum (term 1 (theta 7)))",
        "(sum (term 1 (jet u even field 0 0 0) (jet u odd field 0 0 0)))",
        "(sum (term 1 (jet u even field 0 0 0)) (term 1 (jet u even const 0 0 0)))",
    ):
        with pytest.raises(SExprError):
            from_sexpr(text)


def test_require_parity_guard():
    u, xi = FieldSymbol("u", EVEN), FieldSymbol("xi", ODD)
    for parity in (EVEN, ODD):
        require_parity(SymExpr.zero(), parity, "zero")
    require_parity(u() * xi(), ODD, "odd product")
    with pytest.raises(ParityError, match="has parity 1, expected 0"):
        require_parity(xi(), EVEN, "xi")
    with pytest.raises(ParityError, match="not parity homogeneous"):
        require_parity(u() + xi(), EVEN, "u + xi")
